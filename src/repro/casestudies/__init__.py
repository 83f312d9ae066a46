"""The Table 2 case studies: the four audited routines, each in a C
build and a FaCT build.

Expected flag pattern (Table 2; ✓ = violation, f = found only with
forwarding-hazard detection)::

    Case Study                    C    FaCT
    curve25519-donna              -    -
    libsodium secretbox           ✓    -
    OpenSSL ssl3 record validate  ✓    f
    OpenSSL MEE-CBC               ✓    f
"""

from typing import List, Tuple

from .common import (CaseStudy, CaseVariant, TABLE2_BOUND_FWD,
                     TABLE2_BOUND_NO_FWD, evaluate_variant, render_table2,
                     repair_variant, table2)
from . import donna, mee_cbc, secretbox, ssl3_record


#: The four studies, compiled on first use and then shared: the
#: :class:`CaseStudy`/:class:`CaseVariant` records are frozen.
_STUDIES: Tuple[CaseStudy, ...] = ()


def all_case_studies() -> List[CaseStudy]:
    """All four Table 2 rows, paper order (a fresh list each call)."""
    global _STUDIES
    if not _STUDIES:
        _STUDIES = (donna.case_study(), secretbox.case_study(),
                    ssl3_record.case_study(), mee_cbc.case_study())
    return list(_STUDIES)


__all__ = [
    "CaseStudy", "CaseVariant", "TABLE2_BOUND_FWD", "TABLE2_BOUND_NO_FWD",
    "evaluate_variant", "render_table2", "repair_variant", "table2",
    "all_case_studies",
]
