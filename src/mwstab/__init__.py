"""Periodic traveling waves of two extended Hunter-Saxton models and the
numerical / exact machinery deciding their modulational stability.

Each name is imported from the module that defines it (``mwstab.waves``,
``mwstab.bloch``, ``mwstab.modulation``, ``mwstab.exact``, ...); this
package imports none of them, so the exact oracle loads no numpy."""
