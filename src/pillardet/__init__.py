"""Pillar-based BEV 3D detection stack with desk-scale verification hooks."""
