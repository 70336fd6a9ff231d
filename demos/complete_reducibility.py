"""Two independent tests of complete reducibility, and the reduction map.

On GL_n over the rationals, a subgroup given by generators is completely
reducible exactly when its enveloping algebra is semisimple; the same
answer must come back from the bounded geometric search for a
destabilizing direction without a rational conjugator.  Both engines run
here side by side, followed by the one-step reduction along the radical
filtration to a completely reducible quotient and the Lie algebra
counterparts.
"""

from destab import (
    GroupSpec,
    LieSubalgebra,
    SearchConfig,
    SubgroupPresentation,
    enveloping_algebra,
    is_gcr_algebra,
    is_gcr_search,
    lie_is_gcr,
    radical_dim,
    reduce_to_gcr,
)

gl2 = GroupSpec.make(("GL", 2))
sl2 = GroupSpec.make(("SL", 2))
cfg = SearchConfig.default(gl2, exponent_box=4, shear_values=(-2, -1, 1, 2))

examples = {
    "unipotent  <[[1,1],[0,1]]>": (((1, 1), (0, 1)),),
    "torus      <diag(2,3)>": (((2, 0), (0, 3)),),
    "swap       <[[0,1],[1,0]]>": (((0, 1), (1, 0)),),
    "mixed      <diag(2,3), swap>": (((2, 0), (0, 3)), ((0, 1), (1, 0))),
    "borel pair <[[1,1],[0,1]], diag(1,2)>": (((1, 1), (0, 1)), ((1, 0), (0, 2))),
}

print("== algebra oracle vs geometric search ==")
for label, gens in examples.items():
    h = SubgroupPresentation(gl2, gens)
    alg = enveloping_algebra(h)
    a = is_gcr_algebra(h)
    s = is_gcr_search(h, cfg)
    agree = "agree" if a.status == s.status else "DISAGREE"
    print(f"  {label:38s} dim A = {alg.dimension}, rad = {radical_dim(alg)}: "
          f"{a.status} / {s.status} [{agree}]")

print()
print("== a witness is replayable ==")
h = SubgroupPresentation(gl2, (((1, 1), (0, 1)),))
verdict = is_gcr_search(h, cfg)
lam = verdict.witness_cocharacter
print("  witness lambda:", lam.torus.exponents, "(search box", str(verdict.bounded_box) + ")")

print()
print("== reduction to the completely reducible quotient ==")
for label, gens in examples.items():
    h = SubgroupPresentation(gl2, gens)
    chain, quotient = reduce_to_gcr(h)
    print(f"  {label:38s} steps = {len(chain)}")
    for lam in chain:
        print("      descended along", lam.torus.exponents)
    for g in quotient.generators:
        print("      quotient generator", tuple(tuple(str(x) for x in row) for row in g))

print()
print("== Lie algebra counterparts in sl_2 ==")
cfg_sl = SearchConfig.default(sl2, exponent_box=4, shear_values=(-2, -1, 1, 2))
for label, basis in {
    "span{e}": (((0, 1), (0, 0)),),
    "span{h}": (((1, 0), (0, -1)),),
    "sl_2 itself": (((0, 1), (0, 0)), ((1, 0), (0, -1)), ((0, 0), (1, 0))),
}.items():
    verdict = lie_is_gcr(LieSubalgebra(sl2, basis), cfg_sl)
    extra = ""
    if verdict.witness_cocharacter is not None:
        extra = f" (witness {verdict.witness_cocharacter.torus.exponents})"
    print(f"  {label:12s} -> {verdict.status}{extra}")
