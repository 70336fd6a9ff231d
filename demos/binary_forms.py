"""Instability of binary forms, the classical picture.

A degree-d binary form is unstable exactly when some root has
multiplicity exceeding d/2; the optimizer recovers this from scratch by
maximizing the (normalized) speed at which a one-parameter subgroup drives
the form to zero.  Exact rational output: no floating point anywhere.
"""

from destab import GroupSpec, SearchConfig, SubvarietySpec, SymPower, optimize

sl2 = GroupSpec.make(("SL", 2))
zero_locus = SubvarietySpec.zero_locus()
cfg = SearchConfig.default(sl2, exponent_box=5, oracle_mode=True)

for d in range(2, 7):
    sym = SymPower(sl2, d)
    print(f"== binary forms of degree {d} ==")
    for i in range(d + 1):
        form = sym.monomial(i)
        label = f"x^{d - i}y^{i}"
        res = optimize([form], zero_locus, cfg)
        if res.witnessed:
            exps = res.cocharacter.torus.exponents
            print(
                f"  {label:8s} unstable: lambda = {exps}, "
                f"value^2 = {res.value_sq}, oracle confirmed = {res.global_verified}"
            )
        else:
            print(f"  {label:8s} semistable (no destabilizing direction found)")
    print()

print("the x^3 y case in detail:")
sym4 = SymPower(sl2, 4)
res = optimize([sym4.monomial(1)], zero_locus, cfg)
cert = res.certificate
print("  tori examined:", len(cert.frames))
print("  active forms at the optimum:", [c.weights for c in cert.active_objective])
print("  optimal value^2:", res.value_sq)
print("  parabolic blocks:", res.parabolic.blocks)
