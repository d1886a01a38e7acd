"""Per-layer tracing from outside the program.

Wraps coarse public functions of each `zpmeasures` module (the layers) and
records, per call, a span: its duration, the part covered by child spans,
and a few size counters read off arguments and results.  Nothing under
`src/` is edited; the wrappers are swapped into every module namespace (and
module-level dispatch dicts) that holds the original function.

Fraction, SymPoly and NcSeries arithmetic is not wrapped: it runs millions
of times and a wrapper there would cost more than the work it measures.
A function that no longer exists is skipped, and its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = ("padic", "mpoly", "measures", "classical", "magnus", "octagon",
          "corrections", "suites", "cli")

# (layer, function or Class.method, group).  A group's inclusive time is
# reported as `<group>.s`; nested calls within one group count once.
SPANS = (
    ("padic", "vp", None),
    ("padic", "repr_mod", None),
    ("padic", "repr_mod_pos", None),
    ("padic", "binom", None),
    ("padic", "bernoulli", None),
    ("padic", "bernoulli_poly", None),
    ("padic", "parse_rat", None),
    ("padic", "format_rat", None),
    ("mpoly", "MPoly.evaluate", None),
    ("mpoly", "MPoly.__mul__", None),
    ("mpoly", "MPoly.denominator_valuation", None),
    ("mpoly", "binom_poly", None),
    ("measures", "LevelFamily.build", None),
    ("measures", "validate_distribution", "measures.validate_distribution"),
    ("measures", "linear_combine", "measures.linear_combine"),
    ("measures", "translate", "measures.pushforward"),
    ("measures", "scale_action", "measures.pushforward"),
    ("measures", "pushforward_affine", "measures.pushforward"),
    ("measures", "signed_perm_action", "measures.pushforward"),
    ("measures", "exterior_product", "measures.exterior"),
    ("measures", "exterior_power", "measures.exterior"),
    ("measures", "star_convolution", None),
    ("measures", "box_integral", "measures.box_integral"),
    ("measures", "moment", None),
    ("measures", "iwasawa_P", "measures.iwasawa_P"),
    ("measures", "transform_F", "measures.transform_F"),
    ("measures", "transform_F_via_P", None),
    ("measures", "iwasawa_swap", None),
    ("measures", "iwasawa_flip", None),
    ("measures", "iwasawa_tensor", None),
    ("measures", "measures_equal", None),
    ("measures", "DiracCombo.box_integral_exact", None),
    ("classical", "make_dirac", "classical.make"),
    ("classical", "make_M", "classical.make"),
    ("classical", "make_E1", "classical.make"),
    ("classical", "make_N2", "classical.make"),
    ("classical", "make_D2", "classical.make"),
    ("classical", "e1_relation_suite", "classical.e1_relation_suite"),
    ("classical", "inversion_defect", None),
    ("classical", "inversion_defect_linear", None),
    ("magnus", "parse_word", None),
    ("magnus", "embed_E", "magnus.embed_E"),
    ("magnus", "series_log", None),
    ("magnus", "log_lie_check", None),
    ("magnus", "shuffle_check", None),
    ("magnus", "project_word", None),
    ("magnus", "project_series", None),
    ("magnus", "embed_at_level", None),
    ("magnus", "coefficient_tables", None),
    ("magnus", "beta_measures", None),
    ("magnus", "graded_beta", None),
    ("magnus", "word_coefficient_congruence", "magnus.word_coefficient_congruence"),
    ("magnus", "exp_transform_roundtrip", None),
    ("octagon", "build_factor", None),
    ("octagon", "octagon_product", "octagon.octagon_product"),
    ("octagon", "build_relation_set", "octagon.build_relation_set"),
    ("octagon", "standard_relation_set", None),
    ("octagon", "deg1_relations", None),
    ("octagon", "reflection_relations", None),
    ("octagon", "deg1_implied_by_reflection", "octagon.deg1_implied_by_reflection"),
    ("octagon", "degree2_display", "octagon.degree2_display"),
    ("octagon", "degree2_symmetry_check", "octagon.degree2_symmetry_check"),
    ("octagon", "substitution_images", None),
    ("octagon", "derive_factor_by_subst", "octagon.derive_factor_by_subst"),
    ("octagon", "report_json_dict", None),
    ("corrections", "standard_integrand", "corrections.standard_integrand"),
    ("corrections", "sign_change_identity", "corrections.identities"),
    ("corrections", "reflect_shift_identity", "corrections.identities"),
    ("corrections", "shift_identity", "corrections.identities"),
    ("corrections", "four_term_sum", "corrections.identities"),
    ("suites", "measures_suite", "suites.measures"),
    ("suites", "transforms_suite", "suites.transforms"),
    ("suites", "magnus_suite", "suites.magnus"),
    ("suites", "octagon_suite", "suites.octagon"),
    ("suites", "corrections_suite", "suites.corrections"),
    ("suites", "run_suite", None),
    ("cli", "main", None),
)


def _call_name(layer: str, qualname: str) -> str:
    """`padic.vp`, `mpoly.mul` (for MPoly.__mul__), `measures.build`, ..."""
    return f"{layer}.{qualname.rsplit('.', 1)[-1].strip('_')}"


class Tracer:
    """Span accounting for one worker process; metrics() reads it out."""

    def __init__(self):
        self._stack = []  # one [child seconds] cell per open span
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.group_s = defaultdict(float)
        self._depth = Counter()
        self.counts = Counter()
        self._residues = set()
        self._beta_keys = set()
        self.skipped = []

    # -- size counters read at span end -------------------------------------

    def _observe(self, name, args, result):
        if name == "measures.build":
            self.counts["measures.points_tabulated"] += sum(len(t) for t in result.tables)
        elif name == "magnus.embed_E":
            self.counts["magnus.embed_E.letters"] += len(args[0].letters)
            self.counts["magnus.series_terms"] += len(result.coeffs)
        elif name == "magnus.beta_measures":
            g, r = args[0], args[1]
            self._beta_keys.add((g.level, g.letters, r))
        elif name == "octagon.octagon_product":
            self._residues.add(tuple(args[:3]))
        elif name == "octagon.build_relation_set":
            self.counts["octagon.subst_size"] += len(result.substitution)

    def _wrap(self, layer, name, group, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        depth, group_s, observe = self._depth, self.group_s, self._observe
        clock = time.perf_counter

        def span(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            if group:
                depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - cell[0]
                if stack:
                    stack[-1][0] += dt
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        group_s[group] += dt
                calls[name] += 1
            observe(name, args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self):
        """Swap wrappers into every loaded zpmeasures module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "zpmeasures" or k.startswith("zpmeasures.")) and m is not None]
        swaps = {}
        for layer, qualname, group in SPANS:
            mod = sys.modules.get(f"zpmeasures.{layer}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.skipped.append(f"{layer}.{qualname}")
                continue
            name = _call_name(layer, qualname)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(layer, name, group, raw.__func__)))
            elif owner_name:
                setattr(owner, attr, self._wrap(layer, name, group, raw))
            else:
                swaps[id(raw)] = self._wrap(layer, name, group, raw)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if id(val) in swaps:
                    setattr(mod, key, swaps[id(val)])
                elif isinstance(val, dict):
                    for dk, dv in list(val.items()):
                        if id(dv) in swaps:
                            val[dk] = swaps[id(dv)]

    def metrics(self) -> dict:
        """Raw per-layer numbers of this process (merged by run.py)."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({f"{k}.calls": v for k, v in self.calls.items()})
        out.update({f"{k}.s": v for k, v in self.group_s.items()})
        out.update(self.counts)
        out["octagon.residues"] = len(self._residues)
        out["magnus.beta_measures.distinct"] = len(self._beta_keys)
        out["trace.skipped"] = self.skipped
        return out
