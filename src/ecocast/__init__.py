"""One-step ecosystem forecasting from stacked shallow learners.

The pipeline: named time series plus static context maps are assembled into
supervised one-step pairs, a stack of shallow bricks (linear, DSN, kernel,
tensor, or kernel-tensor) learns the next-step map, and iterated rollout
against a held-out suffix measures how far ahead the predictor stays
reliable.
"""
