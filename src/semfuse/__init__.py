"""Infrared/visible image fusion with semantic-prior cross-attention.

A heavyweight main network fuses a visible/infrared pair by attending to a
persistent repository of semantic-region tokens, and distills its behaviour
into a compact student that runs with no prior provider and no attention at
inference time. Everything runs on a small reverse-mode autodiff core over
numpy, deterministic end to end.
"""
