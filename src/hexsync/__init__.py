"""Deterministic simulator of decentralized hexapod gait control over a
time-synchronized three-node wireless network."""
