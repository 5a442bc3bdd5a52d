"""Retired: the Matern kernel calls scipy.special's gamma family directly."""
