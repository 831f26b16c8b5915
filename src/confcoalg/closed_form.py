"""Closed-form coproduct tables, transcribed sum by sum.

Every emitter builds its ``Coproduct`` directly from the tabulated formulas
over the dual basis; none of them goes through ``dualize`` (a structural
test enforces this for every module that holds an emitter and every module
those import), so agreement of the two paths is a genuine cross-check of
the hand-computed tables.

The emitters are split by series, one module each, so that a command
compiles only the series it emits: closed_form_current (Vir, Cur(sl2)),
closed_form_w (W_n, S_n), closed_form_contact (K_n, the N = 2, 3, 4 lists,
K_4', CK_6) and closed_form_jordan (J_n, JS_1, JCK_4).  This module
imports all four, so every emitter is reached here; the command line
imports the one series module of its family (cli.FAMILIES).

The generator lists are not part of what is checked: every emitter but
Vir's and Cur(sl2)'s takes its generators, basis and symbols, with their
index maps, from ``bases``, as the constructors do, and every dual is
named, in LaTeX too, as ``tables.dual_generators`` names the duals of
``dualize``.  No emitter imports ``families`` or ``restricted``:
the series modules import ``closed_form_builder``, ``bases``, ``masks``,
``poly`` and ``tables`` alone.  Each
emitter works out every dual symbol once per call
(``closed_form_builder._Builder.add_xi``) and then addresses generators by
index; ``_Builder`` sums the terms and builds the ``Coproduct`` from one
polynomial per distinct sum.  Nothing is kept between calls: two calls
share no polynomial.
"""

from __future__ import annotations

from .closed_form_contact import (
    coproduct_CK6, coproduct_K, coproduct_K4prime, coproduct_N,
)
from .closed_form_current import coproduct_cur_sl2, coproduct_vir
from .closed_form_jordan import coproduct_JCK4, coproduct_JS1, coproduct_Jn
from .closed_form_w import coproduct_S, coproduct_W

__all__ = [
    "coproduct_CK6", "coproduct_JCK4", "coproduct_JS1", "coproduct_Jn", "coproduct_K",
    "coproduct_K4prime", "coproduct_N", "coproduct_S", "coproduct_W", "coproduct_cur_sl2",
    "coproduct_vir",
]
