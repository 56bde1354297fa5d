"""Certified eigenvalue floors for Hadamard (entrywise) matrix products.

The package bounds the smallest eigenvalue of A o B for positive
semidefinite factors, certifies positivity of products with one
indefinite factor, and applies the same floor to spatially smoothed
source covariances and factor-model moment matrices.
"""
