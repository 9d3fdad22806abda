"""Splitting types over the projective line and the normal-bundle sequence.

Linearizes the rank-2 local model along its zero section, proves splitting
types by a checked Birkhoff factorization, and prints the h0 profiles that
follow from each answer.
"""

from conetower import (
    TransitionMatrix,
    h0_window,
    linearize_along_curve,
    local_model_fibers,
    normal_bundle_sequence,
    splitting_type,
)

print("=== linearized local-model transitions ===")
for k in (1, 2, 3):
    y1, y2 = local_model_fibers(k)
    T = linearize_along_curve(y1, y2)
    st = splitting_type(T)
    print(f"k = {k}: T = {T}   splitting {st}")
print()

print("=== h0 profile of diag(z^2, 1) = O(0) + O(-2) ===")
T = TransitionMatrix.from_strings([["z^2", "0"], ["0", "1"]])
st, profile = h0_window(T, window=6)
print(f"splitting {st}")
for m, dim in profile:
    print(f"  twist m = {m:>3}: h0 = {dim}")
print()

print("=== a dressed cocycle still splits the same way ===")
# [[1, z^-1], [0, 1]] * diag(z^2, 1) * [[1, 0], [z, 1]]: det is still z^2
dressed = TransitionMatrix.from_strings(
    [["z^2 + 1", "z^-1"], ["z", "1"]]
)
print(f"T = {dressed}")
print(f"splitting {splitting_type(dressed)}")
print()

print("=== normal bundles along the exceptional curve, level k down to 1 ===")
for k in (1, 2, 4):
    seq = ", ".join(str(st) for st in normal_bundle_sequence(k))
    print(f"k = {k}: {seq}")
