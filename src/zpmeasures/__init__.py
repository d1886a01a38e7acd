"""Exact p-adic measures, Iwasawa transforms, Magnus embeddings and the
symbolic octagonal-relation verifier."""

from .padic import (INF, PIntegralityError, PrimeContext, Rat, bernoulli,
                    binom, exact, repr_mod, vp)
from .measures import (DiracCombo, IwasawaPoly, LevelFamily, box_integral,
                       exterior_product, iwasawa_P, linear_combine, measures_equal,
                       pushforward, signed_group, star_convolution, transform_F,
                       transform_F_via_P, validate_distribution)
from .classical import (e1_relation_suite, make_D2, make_E1, make_M, make_N2,
                        make_dirac)
from .magnus import (FreeWord, NcSeries, WordSyntaxError, beta_measures,
                     commutator, embed_E, kernel_check, log_lie_check,
                     parse_word, shuffle_check, word_coefficient_congruence)
from .octagon import (SymPoly, build_factor, deg1_relations,
                      degree2_symmetry_check, derive_factor_by_subst,
                      octagon_product, reflection_relations)

__version__ = "0.1.0"
